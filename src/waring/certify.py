"""Verification layer: every decomposition ships as a JSON certificate.

A certificate records the input form, the terms, a relative max-norm
residual, the catalecticant rank table, the claimed length bound with
its source tag, per-point avoidance evaluations, and the outcome of
every check.  It is valid exactly when all checks pass; the JSON text is
byte-stable for a fixed (input, seed, version) triple so replays can be
compared literally.  For float certificates that holds only at a fixed
BLAS thread count: the float paths run numpy least squares and SVD, whose
last bits follow the number of threads the BLAS splits the work over, so
the same input can give other bytes under another thread setting.  The
library sets no thread count; the `waring` console command and
`perfbench/run.py` pin one (`OPENBLAS_NUM_THREADS=1` and its OpenMP and
MKL counterparts) unless the caller has set them.

Each check is a record `{name, pass, value, limit}` of JSON numbers:
the quantity the check measured and the limit it was held to, or null
where the check measures no number (`distinct-points`).  The English
reading of a check lives only in `Certificate.summary()`.  Forms (the
input and the avoided generators) are written as `form_to_string` text
without its spaces, so the certificate text holds no whitespace at all,
string values included.

The residual is always `max-norm(f - sum) / max(1, max-norm(f))`,
computed in floating point even for exact data, so one number means the
same thing across backends.
`route_by_shape` names the `ROUTES` entry (decomposer, bound, bound tag)
for a form's shape; the command line and `rank_bracket` both decompose
through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .apolarity import cat_rank_table, rank_lower_bound
from .avoidance import AvoidanceSet
from .binary import decompose_binary, decompose_binary_avoiding, open_rank_binary, rank_binary
from .decomposition import RESIDUAL_TOL, Decomposition, Term
from .errors import (
    DimensionMismatch,
    ParseFormError,
    PreconditionError,
    ZeroFormError,
)
from .forms import (
    Form,
    ProjectivePoint,
    distinct_points,
    form_to_string,
    parse_form,
)
from .quartic import quartic_brk3_decompose, quartic_decompose_open
from .ternary import decompose_ternary_odd

VERSION = "0.1.0"

# length-bound tags; anything ending in "-claim" is a recorded assertion
# that the verifier does not re-check
BOUND_WITNESSED = "witnessed-by-decomposition"
BOUND_BINARY_RANK = "binary-rank-exact"
BOUND_BINARY_OPEN = "binary-open-rank-formula"
BOUND_ODD_SPLIT = "odd-degree-line-split"
BOUND_QUARTIC_EIGHT = "plane-quartic-avoiding-eight"
BOUND_CONIC_PULLBACK = "rank-three-conic-pullback"
BOUND_WITNESS_CLAIM = "witness-minimum-eight-claim"


@dataclass
class Certificate:
    """All data needed to re-check one decomposition, JSON-serializable."""

    input_text: str
    num_vars: int
    degree: int
    decomposition: Decomposition
    residual: float
    cat_ranks: list[tuple[int, int]]
    bound_value: int
    bound_source: str
    avoidance: dict | None
    checks: list[dict] = field(default_factory=list)
    seed: int = 0
    version: str = VERSION

    @property
    def valid(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def summary(self) -> str:
        size = self.decomposition.size
        lines = [
            f"input: {self.input_text}",
            f"space: {self.num_vars} variables, degree {self.degree}",
            f"terms: {size}",
            f"residual: {self.residual!r}",
            f"bound: {self.bound_value} [{self.bound_source}]",
        ]
        for c in self.checks:
            mark = "pass" if c["pass"] else "FAIL"
            lines.append(f"check {c['name']}: {mark} ({_check_text(c, size)})")
        lines.append("VALID" if self.valid else "INVALID")
        return "\n".join(lines)


def _check(name: str, passed: bool, value=None, limit=None) -> dict:
    return {"name": name, "pass": passed, "value": value, "limit": limit}


def _check_text(check: dict, size: int) -> str:
    """The English reading of one check record."""
    name, value, limit = check["name"], check["value"], check["limit"]
    if name == "nonzero-coefficients":
        return f"{value} of {limit} nonzero"
    if name == "distinct-points":
        return (f"{size} points pairwise distinct" if check["pass"]
                else "at least two points coincide")
    if name == "residual":
        return f"{value!r} vs tolerance {limit!r}"
    if name == "avoidance":
        return f"{value} of {size} points inside the forbidden set"
    return f"{value} terms vs bound {limit}"  # size-within-bound


def _compact(form_text: str) -> str:
    """`form_to_string` text without its spaces around '+' and '-'.

    The term order is unchanged, and `parse_form` ignores whitespace, so
    exact forms read back equal.
    """
    return form_text.replace(" ", "")


def _encode_scalar(value) -> list:
    if isinstance(value, (int, Fraction)):
        q = Fraction(value)
        return [q.numerator, q.denominator]
    z = complex(value)
    # canonicalize signed zeros: point normalization on replay may flip
    # -0.0 to 0.0, and the bytes must not depend on that
    return [z.real + 0.0, z.imag + 0.0]


def _decode_scalar(pair):
    a, b = pair
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return complex(a, b)


def _avoidance_report(avoid: AvoidanceSet, evaluations: list) -> dict:
    """The generators and their values at every decomposition point, exact
    when possible: `evaluations` holds `avoid.evaluate_at` of each point."""
    return {
        "generators": [_compact(form_to_string(g)) for g in avoid.generators],
        "evaluations": [[_encode_scalar(v) for v in values] for values, _ in evaluations],
    }


def verify_decomposition(f: Form, dec: Decomposition,
                         tol: float = RESIDUAL_TOL,
                         avoid: AvoidanceSet | None = None,
                         seed: int = 0,
                         bound: tuple[int, str] | None = None) -> Certificate:
    """Re-check a decomposition against f and package the result.

    Checks: nonzero coefficients, pairwise distinct points, residual at
    most `tol`, all points off `avoid` when one is attached, and size
    within the claimed bound unless the bound tag marks an unchecked
    claim.  The certificate is valid exactly when every check passes.
    """
    if f.num_vars != dec.num_vars or f.degree != dec.degree:
        raise DimensionMismatch("decomposition does not match the form's space")
    checks: list[dict] = []

    zero_coeffs = sum(1 for t in dec.terms if complex(t.coeff) == 0)
    checks.append(_check("nonzero-coefficients", zero_coeffs == 0,
                         dec.size - zero_coeffs, dec.size))

    checks.append(_check("distinct-points", distinct_points(dec.points())))

    residual = dec.residual(f)
    checks.append(_check("residual", residual <= tol, residual, tol))

    avoidance = None
    if avoid is not None and not avoid.is_trivial:
        evaluations = [avoid.evaluate_at(p) for p in dec.points()]
        hits = sum(1 for _, inside in evaluations if inside)
        checks.append(_check("avoidance", hits == 0, hits, 0))
        avoidance = _avoidance_report(avoid, evaluations)

    if bound is None:
        bound = (dec.size, BOUND_WITNESSED)
    bound_value, bound_source = bound
    if not bound_source.endswith("-claim"):
        checks.append(_check("size-within-bound", dec.size <= bound_value,
                             dec.size, bound_value))

    return Certificate(
        input_text=form_to_string(f),
        num_vars=f.num_vars,
        degree=f.degree,
        decomposition=dec,
        residual=residual,
        cat_ranks=cat_rank_table(f) if f.is_exact else [],
        bound_value=bound_value,
        bound_source=bound_source,
        avoidance=avoidance,
        checks=checks,
        seed=seed,
    )


# route -> (decomposer(f, avoid, **options), bound value of f, bound tag).
# The options are seed, tol and retries; a decomposer keeps its own default
# for an option it is not given.  binary-rank has no retry budget, so it
# drops retries; brk3 spends them as its budget of conics.
ROUTES = {
    "binary-rank": (lambda f, avoid, retries=None, **options:
                    decompose_binary(f, **options),
                    rank_binary, BOUND_BINARY_RANK),
    "binary-open": (decompose_binary_avoiding, open_rank_binary, BOUND_BINARY_OPEN),
    "quartic8": (quartic_decompose_open, lambda f: 8, BOUND_QUARTIC_EIGHT),
    "odd-split": (lambda f, avoid, **options: decompose_ternary_odd(f, **options),
                  lambda f: (f.degree ** 2 - 1) // 2, BOUND_ODD_SPLIT),
    "brk3": (quartic_brk3_decompose, lambda f: 7, BOUND_CONIC_PULLBACK),
}


def route_by_shape(f: Form, avoid: AvoidanceSet | None = None) -> str:
    """The `ROUTES` key that decomposes a form of f's shape.

    Binary forms take the rank route, or the open-rank route when a set is
    avoided; ternary quartics take the eight-power route and ternary forms
    of odd degree at least five the line split, which avoids nothing.
    Raises PreconditionError on every other shape.
    """
    if f.num_vars == 2:
        return "binary-rank" if avoid is None else "binary-open"
    if f.num_vars == 3:
        if f.degree == 4:
            return "quartic8"
        if f.degree >= 5 and f.degree % 2 == 1:
            if avoid is not None:
                raise PreconditionError(
                    "avoidance in three variables is implemented for degree four; "
                    "odd degrees decompose without a forbidden set")
            return "odd-split"
        raise PreconditionError(
            "ternary decomposition covers degree four and odd degrees five and up")
    raise PreconditionError("decomposition handles two or three variables")


def rank_bracket(f: Form) -> tuple[int, int, Decomposition]:
    """Catalecticant lower bound and a witnessed upper bound for the rank.

    A form in one variable is a single power.  Otherwise the decomposition
    is that of `route_by_shape(f)` at its defaults, and the upper bound is
    the smaller of its size and the route's bound: the exact rank for a
    binary form.  Other shapes raise PreconditionError.
    """
    if f.is_zero():
        raise ZeroFormError("the zero form has no rank bracket")
    if f.num_vars == 1:
        idx = next(i for i, c in enumerate(f.coeffs) if c != 0)
        dec = Decomposition(1, f.degree,
                            (Term(f.coeffs[idx], ProjectivePoint((Fraction(1),))),),
                            {"route": "single-variable"})
        return 1, 1, dec
    decompose, bound_value, _ = ROUTES[route_by_shape(f)]
    lower = rank_lower_bound(f)
    dec = decompose(f, None)
    return lower, min(bound_value(f), dec.size), dec


# -- serialization -------------------------------------------------------------


def to_json(cert: Certificate) -> str:
    """Canonical JSON: sorted keys, repr floats, and no whitespace anywhere.

    The no-whitespace rule covers string values too: forms are written without
    spaces and checks carry numbers, not prose.  The bytes of a float
    certificate hold only at a fixed BLAS thread count (see the package
    docstring).
    """
    payload = {
        "input": _compact(cert.input_text),
        "n": cert.num_vars,
        "d": cert.degree,
        "terms": [
            {
                "coeff": _encode_scalar(t.coeff),
                "point": [_encode_scalar(c) for c in t.point.coords],
            }
            for t in cert.decomposition.terms
        ],
        "residual": cert.residual,
        "cat_ranks": [[delta, r] for delta, r in cert.cat_ranks],
        "bound": {"value": cert.bound_value, "source_tag": cert.bound_source},
        "avoidance": cert.avoidance,
        "checks": cert.checks,
        "seed": cert.seed,
        "version": cert.version,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> dict:
    """Parse certificate JSON, validating the field skeleton."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseFormError(f"certificate is not valid JSON: {err}") from err
    required = {"input", "n", "d", "terms", "residual", "cat_ranks",
                "bound", "avoidance", "checks", "seed", "version"}
    if not isinstance(payload, dict) or not required.issubset(payload):
        missing = required - set(payload) if isinstance(payload, dict) else required
        raise ParseFormError(
            f"certificate is missing fields: {', '.join(sorted(missing))}")
    return payload


def replay(payload: dict, tol: float = RESIDUAL_TOL) -> Certificate:
    """Re-run every check of a parsed certificate from its raw data.

    The input form is re-parsed, the terms are rebuilt, the avoidance
    generators are re-parsed, and verify_decomposition runs afresh; the
    recorded bound rides along unchanged.  A field that cannot be rebuilt
    (missing, of the wrong type, an infinite number, a zero denominator,
    or a point that is zero or of the wrong length) raises ParseFormError;
    errors of the verification itself pass through.  The caller compares
    validity (and, if it wants, the serialized bytes).
    """
    try:
        n = int(payload["n"])
        d = int(payload["d"])
        f = parse_form(payload["input"], n, d)
        terms = []
        for entry in payload["terms"]:
            coeff = _decode_scalar(entry["coeff"])
            coords = tuple(_decode_scalar(c) for c in entry["point"])
            terms.append(Term(coeff, ProjectivePoint(coords)))
        dec = Decomposition(n, d, tuple(terms), {"route": "replayed"})
        avoid = None
        if payload["avoidance"] is not None:
            gens = tuple(parse_form(g, n) for g in payload["avoidance"]["generators"])
            avoid = AvoidanceSet(n, gens)
        bound = (int(payload["bound"]["value"]), str(payload["bound"]["source_tag"]))
        seed = int(payload["seed"])
    except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError,
            PreconditionError) as err:
        raise ParseFormError(f"malformed certificate field: {err!r}") from err
    return verify_decomposition(f, dec, tol=tol, avoid=avoid, seed=seed, bound=bound)
