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
pipeline.  `SplitProblem.search` is the one see-saw tuple search of the
odd split and the quartic 4 + 4 split: the all-zero tuple first, then
integer draws of growing height.  Its step, `SplitProblem.decompose_tuple`,
is the one tuple step of every split route: decompose each piece on its
line within a cap and merge the pieces back into the plane.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np

from .apolarity import catalecticant, essential_subspace, essential_variables
from .binary import (decompose_binary, decompose_binary_bounded, decompose_on_line,
                     push_decomposition, solve_on_lines)
from .decomposition import RESIDUAL_TOL, Decomposition, Term, term_from_vector
from .errors import (
    DegenerateSystemError,
    PreconditionError,
    Rejects,
    RetryExhausted,
    ZeroFormError,
)
from .forms import (
    Form,
    ProjectivePoint,
    combination,
    complex_coords,
    contract,
    distinct_points,
    evaluate,
    is_exact_scalar,
    power_of_linear,
    random_combination,
    same_point,
)
from .linalg import SPAN_TOL, numeric_nullspace
from .plane import (
    UNIT_DUALS,
    apart,
    as_dual_point,
    cross,
    det3,
    factor_rank_two_quadric,
    integer_matrices,
    plane_basis,
    quadric_matrix,
    quadric_rank,
    reduced_plane_basis,
    singular_members,
)

TUPLE_BUDGET = 256
LINE_BUDGET = 64
CONCURRENCY_TOL = 1e-8
ANNIHILATION_TOL = 1e-8


def annihilates(duals, f: Form) -> bool:
    """Whether the product of the linear duals, contracted into f, is zero.

    On an exact f the exact duals are contracted into f in turn, exactly,
    and only the product of the float duals (the left fold, in their
    order) is judged against that residual h: exactly when no float dual
    is left, else against ANNIHILATION_TOL * max(|product|, 1) * max(|h|, 1).
    A float f folds every dual into the product.
    """
    h = f
    if f.is_exact:
        floats = []
        for ell in duals:
            if ell.is_exact:
                h = contract(ell, h)
            else:
                floats.append(ell)
        duals = floats
    if not duals:
        return h.is_zero()
    product = duals[0]
    for ell in duals[1:]:
        product = product * ell
    scale = max(product.max_abs(), 1.0) * max(h.max_abs(), 1.0)
    return contract(product, h).max_abs() <= ANNIHILATION_TOL * scale


def _meet(a: Form, b: Form) -> tuple:
    """The common point of two lines, as `LineSystem.intersection` gives it."""
    exact = a.is_exact and b.is_exact
    return cross(a.coeffs, b.coeffs) if exact else cross(a.floats(), b.floats())


def concurrent(a: Form, b: Form, c: Form) -> bool:
    """Whether three lines meet in a common point.

    Three exact lines meet exactly when the 3 x 3 determinant of their
    integer numerators vanishes.  Otherwise line c is evaluated at the
    point u of a and b and judged against
    CONCURRENCY_TOL * (max|u| * max(1, max|c|)).
    """
    if a.is_exact and b.is_exact and c.is_exact:
        return det3((a.numerators()[0], b.numerators()[0], c.numerators()[0])) == 0
    return _through(c, complex_coords(_meet(a, b)))


def _through(c: Form, u: tuple) -> bool:
    """The float branch of `concurrent`: line c at the point u of the other
    two, given as complex floats."""
    return abs(evaluate(c, u)) <= CONCURRENCY_TOL * (max(map(abs, u)) * max(1.0, c.max_abs()))


# -- line systems ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LineSystem:
    """Pairwise distinct lines in the plane, given by their linear duals.

    A system keeps what it has decided: each pairwise meet with its
    complex view, each computed once for `in_general_position` and the
    see-saw points of a split, and the form f for which
    `annihilating_lines` or `minimize_annihilating` made it, which
    `annihilates` then passes without a check.
    """

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
        object.__setattr__(self, "_meets", {})
        object.__setattr__(self, "_annihilated", None)

    @property
    def k(self) -> int:
        return len(self.lines) - 1

    @property
    def is_exact(self) -> bool:
        return all(ell.is_exact for ell in self.lines)

    def span(self, i: int) -> tuple[tuple, tuple]:
        """Basis of the line cut out by the i-th dual.

        Exact duals keep the pivot basis of their integer numerators, each
        vector w divided by the power of two 2^e <= max |w_i| < 2^(e+1).
        That dyadic scale changes no bit of a mantissa, yet brings every
        vector to a largest coordinate in [1, 2), near the unit scale of
        the float duals' orthonormal basis.  A piece on the line scales as
        the d-th power of 1 / |w|, so without it the pieces on lines of
        different heights, and the float roots and weights computed from
        them, would spread over many orders (van der Sluis, 1969).  Float
        duals get an orthonormal basis so the embedding of the line stays
        well-conditioned (high powers amplify any skew badly).
        """
        ell = self.lines[i]
        if ell.is_exact:
            basis = []
            for w in plane_basis(ell.numerators()[0]):
                scale = 1 << (max(map(abs, w)).bit_length() - 1)
                basis.append(tuple(Fraction(x, scale) for x in w))
            return basis[0], basis[1]
        row = np.array([[complex(c) for c in ell.coeffs]])
        basis = numeric_nullspace(row / np.abs(row).max())
        return tuple(basis[0]), tuple(basis[1])

    def intersection(self, i: int, j: int, floats: bool) -> tuple:
        """The common point of lines i < j: exact when both lines are, else
        from their complex views (the bits mixed arithmetic gives); with
        `floats`, its complex view.  Both are kept, so each meet is computed
        once and converted once, when its view is first read."""
        if (i, j) not in self._meets:
            self._meets[i, j] = [_meet(self.lines[i], self.lines[j]), None]
        kept = self._meets[i, j]  # the meet, and its view once read
        if floats and kept[1] is None:
            kept[1] = complex_coords(kept[0])
        return kept[1] if floats else kept[0]

    def annihilates(self, f: Form) -> bool:
        return self._annihilated is f or annihilates(self.lines, f)

    def in_general_position(self) -> bool:
        """No three of the lines meet in a common point (see `concurrent`);
        a float triple reads the meet of its first two from `intersection`."""
        lines = self.lines
        return not any(concurrent(lines[i], lines[j], lines[m])
                       if all(lines[n].is_exact for n in (i, j, m))
                       else _through(lines[m], self.intersection(i, j, True))
                       for i, j, m in combinations(range(len(lines)), 3))


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
    return apart(l1, [l2, *forbidden]) and apart(l2, forbidden)


def _split_reducible(q: Form, forbidden: list[ProjectivePoint],
                     squares: list[Form]) -> tuple[Form, Form] | None:
    """Factor a singular quadric, stashing rank-one members for later."""
    rank = quadric_rank(q)
    if rank == 1:
        root = _square_root_line(q)
        if root is not None and apart(root, squares):
            squares.append(root)
        return None
    if rank != 2:
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
                     seed: int = 0) -> tuple[Form, Form]:
    """A reducible quadric in the span of `basis`, split into its lines.

    Works down an exactness ladder: single basis members, then rational
    roots of determinant cubics along at most LINE_BUDGET pencils, then
    float roots, and finally differences of squares built from rank-one
    members (which always factor rationally).  Only the first float pair
    is ever returned, so once one is held the later pencils ask for their
    rational roots alone: an exact member there can still give the pair
    or feed the squares, while a float member cannot.  A float root is an
    irrational root of a rational cubic, hence simple, so its member has
    a nonzero adjugate (rank two) and is never a square.

    Every pencil is one call of `singular_members` on the integers: a
    combination, by the draws of `random_combination`, of the net's quadric
    matrices over one common denominator.  It gives the rational roots at
    once and the float roots, an Aberth iteration, only when asked: a
    pencil after the float pair runs no Aberth iteration, and its quadrics
    become Forms only when it has a rational root.
    """
    if not basis:
        raise PreconditionError("empty net has no reducible member")
    if not all(q.is_exact for q in basis):
        raise PreconditionError("reducible member search needs exact quadrics")
    squares: list[Form] = []
    rejects = Rejects("reducible-member", "members", "pencils")
    rng = random.Random(seed)
    float_hit: tuple[Form, Form] | None = None
    den, net = integer_matrices([quadric_matrix(q) for q in basis])

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
        rejects.count("members")
        hit = record(_split_reducible(q, forbidden, squares))
        if hit is not None:
            return hit

    def on_net(coeffs):  # the integer matrix of sum coeffs[k] * basis[k]
        return [[sum(c * m[i][j] for c, m in zip(coeffs, net)) for j in range(3)]
                for i in range(3)]

    def pencil_stream():
        # each quadric of a pencil as its coefficients over the basis and its matrix
        units = [[int(i == k) for k in range(len(basis))] for i in range(len(basis))]
        yield from combinations(zip(units, net), 2)
        while True:  # the draws of two `random_combination(rng, basis, 5)`
            pair = [(c, on_net(c)) for c in ([rng.randint(-5, 5) for _ in basis] for _ in range(2))]
            if all(any(map(any, m)) for _, m in pair):  # neither quadric is zero
                yield pair

    for (ca, a), (cb, b) in pencil_stream():
        if rejects.counts["pencils"] >= LINE_BUDGET:
            break
        rejects.count("pencils")
        rational, float_roots = singular_members(den, (a, b))
        if rational or float_hit is None:
            qa, qb = combination(ca, basis), combination(cb, basis)
        for t in rational:
            rejects.count("members")
            hit = record(_split_reducible(qa + qb.scale(t), forbidden, squares))
            if hit is not None:
                return hit
        for t in float_roots() if float_hit is None else ():
            rejects.count("members")
            record(_split_reducible(qa.to_float() + qb.to_float().scale(t), forbidden, squares))
            if float_hit is not None:  # only the first float pair is ever returned
                break
        # two rank-one members factor rationally without more pencil work
        if len(squares) >= 2:
            pair = _square_difference_pair(squares, forbidden)
            if pair is not None:
                return pair
        if float_hit is not None and rejects.counts["pencils"] >= 8:
            break

    if float_hit is not None:
        return float_hit
    raise rejects.exhausted("no admissible reducible member found in the net",
                            squares=len(squares))


def reducible_kernel_pair(g: Form, sigma=(), seed: int = 0) -> KernelPair:
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
    for a, b in combinations_with_replacement([Form(3, 1, p.coords) for p in sigma_points], 2):
        if annihilates((a, b), g):
            return KernelPair(a, b, from_sigma=True)
    net = list(catalecticant(g, 2).kernel)
    l1, l2 = reducible_member(net, sigma_points, seed=seed)
    if not annihilates((l1, l2), g):
        rejects = Rejects("kernel-pair", "recheck")
        rejects.count("recheck")
        raise rejects.exhausted("factored member failed the annihilation recheck")
    return KernelPair(l1, l2, from_sigma=False)


# -- building annihilating systems -------------------------------------------


def _sample_lines(rng, count: int, height: int) -> list[Form]:
    """`count` distinct random lines."""
    lines: list[Form] = []
    while len(lines) < count:
        ell = random_combination(rng, UNIT_DUALS, height)
        if ell is not None and apart(ell, lines):
            lines.append(ell)
    return lines


def annihilating_lines(f: Form, seed: int = 0) -> LineSystem:
    """d - 1 distinct lines in general position whose product kills f.

    All but two of the lines are sampled at random subject to exact
    openness conditions (no residual contraction may die early); the last
    two come from factoring a singular member of the quadratic annihilator
    net of what remains.  That pair's recheck on the residual of f is
    what `annihilates` decides for the whole system, so the system comes
    back carrying f and is not checked again.  LINE_BUDGET attempts are
    made before RetryExhausted, whose diagnostics count the rejects by reason.
    The zero form, which every line annihilates, raises ZeroFormError.
    """
    if f.num_vars != 3:
        raise PreconditionError("annihilating_lines expects a ternary form")
    d = f.degree
    if d < 3:
        raise PreconditionError("need degree at least three to build a system")
    if f.is_zero():
        raise ZeroFormError("every line annihilates the zero form")
    rng = random.Random(seed)
    if not f.is_exact:
        raise PreconditionError("annihilating_lines runs on the exact backend")

    rejects = Rejects("lines", "zero_residual", "pair_condition", "kernel_pair",
                      "position", "duplicate")
    for attempt in range(LINE_BUDGET):
        sampled = _sample_lines(rng, d - 3, 9 << (attempt // 16))
        g = f
        for ell in sampled:
            g = contract(ell, g)  # a zero residual stays zero
        if g.is_zero():
            rejects.count("zero_residual")
            continue
        # a sampled pair that already kills g comes back flagged
        try:
            pair = reducible_kernel_pair(g, sigma=sampled, seed=seed + 7919 * attempt)
        except RetryExhausted:
            rejects.count("kernel_pair")
            continue
        if pair.from_sigma:
            rejects.count("pair_condition")
            continue
        try:
            system = LineSystem(tuple(sampled) + (pair.first, pair.second))
        except PreconditionError:
            rejects.count("duplicate")
            continue
        if not system.in_general_position():
            rejects.count("position")
            continue
        object.__setattr__(system, "_annihilated", f)
        return system
    raise rejects.exhausted(
        f"no annihilating system of {d - 1} lines in {LINE_BUDGET} attempts")


def minimize_annihilating(f: Form, system: LineSystem) -> LineSystem:
    """Drop lines one by one while the remaining product still kills f.

    A single left-to-right pass suffices: annihilation is monotone under
    adding lines, so anything kept against a superset stays necessary.
    A system that carries f (see `LineSystem`) is not checked first; the
    result carries f, and is the system itself when no line drops.
    """
    if f.is_zero():
        return LineSystem(())
    if not system.annihilates(f):
        raise PreconditionError("system does not annihilate the form")
    kept = list(system.lines)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1:]
        if rest and annihilates(rest, f):
            del kept[i]
        else:
            i += 1
    if len(kept) < len(system.lines):
        system = LineSystem(tuple(kept))
    object.__setattr__(system, "_annihilated", f)
    return system


# -- the splitting system -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SplitProblem:
    """Affine solution space of f = sum of forms supported on given lines.

    `particular` is one solution tuple (binary forms, one per line, in the
    coordinates of the line's span).  The direction space is spanned by
    see-saw generators: the d-th power of a pairwise intersection point,
    added on one line and subtracted on the other.  `seesaws` holds each
    point as (i, j, its coordinates on line i, on line j); `kernel` holds
    the generators as (i, j, power on line i, power on line j), powered
    when first read, so a split that succeeds at the all-zero tuple
    powers none.
    """

    form: Form
    system: LineSystem
    particular: tuple[Form, ...]
    seesaws: tuple[tuple[int, int, tuple, tuple], ...]
    spans: tuple[tuple[tuple, tuple], ...]

    @cached_property
    def kernel(self) -> tuple[tuple[int, int, Form, Form], ...]:
        # scale each see-saw generator to the size of the particular solution,
        # via an exact dyadic factor, so integer kernel coefficients perturb
        # the pieces instead of drowning them
        d = self.form.degree
        exact = self.form.is_exact and self.system.is_exact
        ref = max(max(p.max_abs() for p in self.particular), 1e-30)
        out = []
        for i, j, ci, cj in self.seesaws:
            pow_i = power_of_linear(ci, d)
            pow_j = power_of_linear(cj, d)
            gnorm = max(pow_i.max_abs(), pow_j.max_abs())
            shift = round(math.log2(gnorm / ref)) if gnorm > 0 else 0
            gamma = Fraction(1, 1 << shift) if shift >= 0 else Fraction(1 << -shift)
            if not exact:  # a power of two: float(gamma) has the bits of complex(gamma)
                gamma = float(gamma)
            out.append((i, j, pow_i.scale(gamma), pow_j.scale(gamma)))
        return tuple(out)

    def pieces(self, coeffs) -> list[Form]:
        """The summand tuple at one choice of kernel coefficients; a zero
        coefficient reads nothing of its generator."""
        if len(coeffs) != len(self.seesaws):
            raise PreconditionError(
                f"expected {len(self.seesaws)} kernel coefficients")
        out = list(self.particular)
        for n, c in enumerate(coeffs):
            if c:
                i, j, pow_i, pow_j = self.kernel[n]
                out[i] = out[i] + pow_i.scale(c)
                out[j] = out[j] - pow_j.scale(c)
        return out

    def merge(self, decs: dict, provenance: dict, tol: float,
              rejects: Rejects) -> Decomposition | None:
        """The piece decompositions `decs` (by line index), pushed to the plane.

        Pushed points that clash (a point where two lines meet, taken by
        both pieces) are merged first, by `_merge_clashes`, which leaves
        distinct points.  None on a sum that misses f, counted in
        `rejects` as `residual` with its residual; the provenance gains
        `lines` and `piece_sizes`.
        """
        terms = [t for i, dec in decs.items()
                 for t in push_decomposition(dec, self.spans[i]).terms]
        if not distinct_points([t.point for t in terms]):
            terms = _merge_clashes(terms, self.form.degree)
        merged = Decomposition(3, self.form.degree, tuple(terms), {
            **provenance,
            "lines": [tuple(map(str, ell.coeffs)) for ell in self.system.lines],
            "piece_sizes": [decs[i].size if i in decs else 0
                            for i in range(len(self.spans))],
        })
        if not merged.meets_tolerance(self.form, tol):
            rejects.count("residual", merged.provenance["residual"])
            return None
        return merged

    def decompose_tuple(self, coeffs, caps, avoids, seed: int, tol: float,
                        rejects: Rejects, provenance: dict,
                        done: dict | None = None) -> Decomposition | None:
        """The tuple step: the pieces at `coeffs`, decomposed and merged.

        Piece i gets at most `caps[i]` points off `avoids[i]` (None avoids
        nothing) from `decompose_binary_bounded` at seed `seed + i`; zero
        pieces and those already decomposed in `done` (by line index) are
        skipped.  None when a piece fails (counted as `piece_fail`, with the
        piece's best residual) or the merge rejects the sum (`residual`).
        """
        decs = dict(done or {})
        for i, piece in enumerate(self.pieces(coeffs)):
            if i in decs or piece.is_zero():
                continue
            try:
                decs[i] = decompose_binary_bounded(piece, avoids[i], caps[i],
                                                   seed=seed + i, tol=tol)
            except RetryExhausted as err:
                rejects.count("piece_fail", err.diagnostics["best_residual"])
                return None
        return self.merge(decs, provenance, tol, rejects)

    def search(self, caps, avoids, rng, seed: int, tol: float, retries: int,
               every: int, rejects: Rejects, provenance: dict) -> Decomposition | None:
        """The see-saw tuple search: the first of `retries` tuples whose
        pieces decompose within `caps` off `avoids` and merge into f.

        Tuple 0 is all zeros; tuple t >= 1 draws one `rng.randint(-h, h)`
        per generator, with h = 9 << (t // every).  Each runs
        `decompose_tuple` at seed `seed + 31 t`, with `tuple_attempt` added
        to the provenance.  None when the budget is spent; `rejects` then
        holds the counts and the best residual.
        """
        size = len(self.seesaws)
        for t in range(retries):
            height = 9 << (t // every)
            coeffs = ([Fraction(rng.randint(-height, height)) for _ in range(size)]
                      if t else [0] * size)
            merged = self.decompose_tuple(coeffs, caps, avoids, seed + 31 * t, tol, rejects,
                                          {**provenance, "tuple_attempt": t})
            if merged is not None:
                return merged
        return None


def _merge_clashes(terms: list[Term], degree: int) -> list[Term]:
    """The terms of one degree with each one at the same point (at 1e-6)
    as an earlier one folded into it: one term at the first point, dropped
    when its coefficient sums to exactly zero.  Two float copies of a point
    can pivot on different coordinates, so a later term enters as
    coeff * q[k]^degree, with k a coordinate where the first point reads 1;
    exact copies agree, q[k] is 1 and exact stays exact.  The merged sum is
    judged by the residual check as any other."""
    groups: list[list] = []  # [coefficient, point, index of a coordinate 1]
    for t in terms:
        group = next((g for g in groups if same_point(g[1], t.point, 1e-6)), None)
        if group is None:
            groups.append([t.coeff, t.point, t.point.coords.index(1)])
        else:
            group[0] += t.coeff * t.point.coords[group[2]] ** degree
    return [Term(c, p) for c, p, _ in groups if c != 0]


def _line_frame(span) -> tuple:
    """A line's span (u, v) with w* and w.w*, for w = u x v and w* its
    complex conjugate (w itself on an exact span): what
    `_line_coordinates` reads of the line, computed once per line."""
    u, v = span
    w = cross(u, v)
    exact = all(map(is_exact_scalar, (*u, *v)))
    w_bar = w if exact else tuple(c.conjugate() for c in w)
    return u, v, w_bar, sum(p * q for p, q in zip(w, w_bar)), exact


def _line_coordinates(x, frame):
    """Coordinates (a, b) of a point x in a line's own basis: x = a u + b v.

    In closed form, with w = u x v: x x v = a w and u x x = b w, so
    a = (x x v).w* / (w.w*) and b = (u x x).w* / (w.w*), w* the complex
    conjugate; `frame` is the line's `_line_frame`.  Exact data take plain
    dot products, which give the Fractions of the unique exact solution.
    A point off its line raises DegenerateSystemError: exactly when
    a u + b v differs from x, on floats when max|a u + b v - x| exceeds
    SPAN_TOL * max(1, max|x|).
    """
    u, v, w_bar, norm, exact = frame
    exact = exact and all(map(is_exact_scalar, x))
    a = sum(p * q for p, q in zip(cross(x, v), w_bar)) / norm
    b = sum(p * q for p, q in zip(cross(u, x), w_bar)) / norm
    miss = [a * p + b * q - c for p, q, c in zip(u, v, x)]
    if (any(miss) if exact  # `not <=` also catches a NaN
            else not max(map(abs, miss)) <= SPAN_TOL * max(1.0, max(map(abs, x)))):
        raise DegenerateSystemError("intersection point escaped its line")
    return a, b


def split_on_lines(f: Form, system: LineSystem) -> SplitProblem:
    """Solve f = sum of line-supported pieces for an annihilating system.

    Requires at least two lines and verifies both the annihilation
    hypothesis and the expected solution-space dimension (one see-saw
    generator per pair of lines); a dimension mismatch means the system
    is degenerate and should be resampled.  A system that carries f (see
    `LineSystem`) is not checked for annihilation again; the see-saw points
    are its kept meets, read through their kept complex views on a float
    split, and each line's frame for them is computed once.

    The columns come from one `line_embedding` of all the spans, with no
    `Form` built.  On an exact system and an exact f they are exact and
    the solve is exact.  Otherwise `solve_columns` takes one complex
    N x (k + 1)(d + 1) matrix and the complex view of f.  There the float
    lines' columns have the bits of the `Form` product loops, and the
    exact lines' columns, integers over one denominator each, become
    floats once by int division, with the bits of complex(Fraction).
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
    # the very different magnitudes of high powers of the span vectors
    solved = solve_on_lines(f, spans)
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
    # keep the generators on the particular solution's backend even where
    # two exact lines meet: mixing them would convert every Fraction again
    # on each sampled tuple; exact spans and points are converted once here
    frames = [_line_frame(span if exact else tuple(map(complex_coords, span)))
              for span in spans]
    seesaws = []  # each point in its two lines' coordinates; a point off a line raises here
    for i, j in combinations(range(k + 1), 2):
        u_ij = system.intersection(i, j, not exact)
        seesaws.append((i, j, _line_coordinates(u_ij, frames[i]),
                        _line_coordinates(u_ij, frames[j])))
    return SplitProblem(form=f, system=system, particular=particular,
                        seesaws=tuple(seesaws), spans=spans)


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


def essential_line(f: Form) -> tuple[tuple, tuple]:
    """A Lagrange-reduced integer basis (u, v) of the essential line of a
    form in two essential variables: points pushed through a nearly
    parallel basis lose their digits."""
    u, v = reduced_plane_basis(*essential_subspace(f))
    return tuple(u), tuple(v)


def _binary_on_subspace(f: Form, seed: int, tol: float) -> Decomposition:
    return decompose_on_line(f, essential_line(f),
                             lambda g: decompose_binary(g, seed=seed, tol=tol),
                             "binary-subspace", tol)


def decompose_ternary_odd(f: Form, seed: int = 0, tol: float = RESIDUAL_TOL,
                          retries: int = TUPLE_BUDGET) -> Decomposition:
    """Power sum for an exact ternary form of odd degree at least five.

    Splits f along d - 1 annihilating lines (fewer after minimization),
    then samples the solution space until every nonzero piece decomposes
    within the per-line cap max(d + 1 - k, (d + 1) / 2).  The total never
    exceeds (d^2 - 1) / 2, because (k + 1) times the cap does not for any
    1 <= k <= d - 2.  Forms in fewer essential variables take the direct
    single-power or binary route instead.  One record counts the rejects
    of the whole call: line systems not found (`lines`) or not split
    (`split`), and the tuples' `piece_fail` and `residual`.  Its
    `best_residual` is the least residual that any merged sum or failed
    piece reached (None if none got that far).
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

    rejects = Rejects("odd-split", "lines", "split", "piece_fail", "residual")
    outer_budget = 4
    for sys_attempt in range(outer_budget):
        try:
            system = annihilating_lines(f, seed=seed + 101 * sys_attempt)
            system = minimize_annihilating(f, system)
        except RetryExhausted:
            rejects.count("lines")
            continue
        k = system.k
        if k < 1:
            raise DegenerateSystemError(
                "single annihilating line on a three-variable form")
        try:
            split = split_on_lines(f, system)
        except DegenerateSystemError:
            rejects.count("split")
            continue
        cap = max(d + 1 - k, (d + 1) // 2)
        caps, avoids = (cap,) * (k + 1), (None,) * (k + 1)
        rng = random.Random(seed + 977 * sys_attempt + 13)
        merged = split.search(caps, avoids, rng, seed, tol, retries, 32, rejects,
                              {"route": "odd-line-split", "k": k, "cap": cap, "seed": seed})
        if merged is not None:
            return merged
    raise rejects.exhausted(
        f"no admissible split decomposition after {outer_budget} line systems")


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
