"""The benchmark's four workloads: inputs from a seed, one op chain each.

Every op is recorded, never raised: its outcome is `valid`, `invalid`,
`waring_error:<Type>` (the library refused with its own error) or
`crash:<Type>` (anything else escaped).  Certificates that claim VALID
are re-checked here, independently of the library's verifier, by
evaluating the form and the power sum at random points of the torus.

Why each workload exists, and which layer it isolates, is written down
in NOTES.md next to this file.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

import waring
from waring import Certificate, WaringError, parse_form, power_of_linear, random_form
from waring.binary import RESIDUAL_TOL
from waring.certify import BOUND_BINARY_RANK, BOUND_ODD_SPLIT, BOUND_QUARTIC_EIGHT
from waring.monomials import exponents

from hostprobe import HostProbe

# Random-form seeds of workload seed s are s * SEED_STRIDE + 0, 1, 2, ...
SEED_STRIDE = 1000

# degree -> number of random binary forms.  The blocks at degree 16 and 24
# hold the median and the 75th percentile of the per-op time: inside one
# degree the cost varies little from form to form, whereas a quantile
# that falls between two rungs jumps with the seed.  Op cost rises with
# the degree, so with the probes below the 74 ops sort into 20 below
# degree 16, 28 at 16, 2 at 20-21, 18 at 24 and 6 above: the median
# (37.5th) sits 16 ops into the degree-16 block and the 75th percentile
# (56.25th) 5 ops into the degree-24 block.
BINARY_LADDER = {6: 3, 7: 3, 8: 4, 9: 3, 12: 3, 15: 4, 16: 28,
                 20: 1, 21: 1, 24: 18, 25: 2, 28: 1, 32: 1}
# fixed (degree, form seed) probes: degree 32 seed 2 was reported to
# certify INVALID, degree 40 seed 1 escapes as a bare ValueError
BINARY_PROBES = ((32, 2), (40, 1))

# Random quartics have coefficients in [-3, 3]: at the library's default
# height of 9 the per-case cost has a coefficient of variation near 1 (the
# rational-root search over large pencil coefficients), too wide for a
# 20-second run to pin its median down; at height 3 it is about 0.5, with
# the same routes and roots still the largest layer.  The witness keeps a
# heavy rational-root case in every pass.  With 150 random quartics the
# 75th percentile of the per-op time spread by about 10% from seed to
# seed, with 200 by about 7%.
QUARTIC_RANDOM = 200
QUARTIC_HEIGHT = 3
# paired round-robin with the random quartics; None is the empty set
QUARTIC_AVOID = (None, "x2", "x0*x2 - x1^2", "x0^3 + x1^3 + x2^3")
# fixed route cases (name, form, avoided generator), each off the set it
# names; the witness quartic needs all eight summands
QUARTIC_ROUTES = (
    ("conic pullback", lambda: parse_form("x0^4 + x1^4", 3)
     + power_of_linear((1, 1, 1), 4), "x2"),
    ("power re-spread", lambda: parse_form("x0^4", 3), "x1"),
    ("line-open", lambda: parse_form("x0^4 + x0^3*x1 + x1^4", 3), "x0 - x2"),
    ("two-line split", lambda: parse_form("x0^3*x1", 3), "x2"),
    ("witness", waring.witness_quartic, "x2"),
)

# The costs of the three degrees barely overlap; four more degree-9 forms
# put the 75th percentile (39.75th of 52 ops) 7 ops into the degree-9
# block instead of 4, away from the cheaper degree-7 ops.
TERNARY_DEGREES = {5: 16, 7: 16, 9: 20}

# The replay corpus: the certificates of the cheaper cases of the other
# three workloads at the same seed, so that building it stays short.
REPLAY_BINARY_MAX_DEGREE = 21
REPLAY_QUARTIC_RANDOM = 12
REPLAY_TERNARY = {5: 6, 7: 6}

# random points of the unit torus at which agrees() compares the form
# with the power sum
CHECK_POINTS = 3


@dataclass(frozen=True)
class Case:
    """One input: a form plus whatever its op chain needs besides."""

    label: str
    form: waring.Form
    cap: int                        # a known upper bound on the length
    avoid: waring.Form | None = None
    stored: str | None = None       # cert-replay: the certificate to replay
    stored_valid: bool = False      # cert-replay: its verdict


@dataclass
class Op:
    label: str
    outcome: str
    seconds: float
    text: str | None = None         # the certificate JSON
    terms: int = 0
    failed: bool = True
    breach: bool = False
    drift: bool = False
    checked: bool = True            # False when a VALID claim fails our check


def classify(exc: BaseException) -> str:
    """`waring_error:<Type>` for the library's own errors, else `crash:<Type>`."""
    kind = "waring_error" if isinstance(exc, WaringError) else "crash"
    return f"{kind}:{type(exc).__name__}"


# -- op chains: each returns the certificate it produced ----------------------
# Calls go through the `waring` package namespace so that the layer trace,
# which rebinds names there, sees them.


def binary_op(case: Case) -> Certificate:
    f = case.form
    rank = waring.rank_binary(f)
    waring.border_rank_binary(f)
    waring.open_rank_binary(f)
    dec = waring.decompose_binary(f)
    return waring.verify_decomposition(f, dec, bound=(rank, BOUND_BINARY_RANK))


def quartic_op(case: Case) -> Certificate:
    avoid = None if case.avoid is None else waring.AvoidanceSet(3, (case.avoid,))
    dec = waring.quartic_decompose_open(case.form, avoid)
    return waring.verify_decomposition(case.form, dec, avoid=avoid,
                                       bound=(8, BOUND_QUARTIC_EIGHT))


def ternary_op(case: Case) -> Certificate:
    dec = waring.decompose_ternary_odd(case.form)
    return waring.verify_decomposition(case.form, dec,
                                       bound=(case.cap, BOUND_ODD_SPLIT))


def replay_op(case: Case) -> Certificate:
    return waring.replay(waring.from_json(case.stored))


def attempt(chain, case: Case, clock=time.thread_time) -> Op:
    """Run and time one op chain, then check its output; never raises."""
    start = clock()
    try:
        cert = chain(case)
        text = waring.to_json(cert)
    except Exception as exc:  # the op's outcome is what is being measured
        return Op(case.label, classify(exc), clock() - start,
                  breach=not isinstance(exc, WaringError))
    seconds = clock() - start
    valid = cert.valid
    op = Op(case.label, "valid" if valid else "invalid", seconds, text,
            cert.decomposition.size, checked=not valid or agrees(case, cert))
    if case.stored is None:
        op.failed = op.breach = not valid
    else:
        op.failed = valid != case.stored_valid
        op.drift = text != case.stored
    return op


# -- independent output check ---------------------------------------------------


def agrees(case: Case, cert: Certificate) -> bool:
    """Check a VALID certificate without the library's verifier.

    The form and the power sum must agree at CHECK_POINTS random points
    with unit coordinates, within what the certificate's coefficient
    tolerance allows; the length must stay within the case's cap; and
    every point must lie off the avoided generator.
    """
    f, dec = case.form, cert.decomposition
    if dec.size > case.cap:
        return False
    d = f.degree
    expo = np.array(exponents(f.num_vars, d))
    coeffs = np.array([complex(c) for c in f.coeffs])
    points = np.array([[complex(c) for c in t.point.coords] for t in dec.terms])
    weights = np.array([complex(t.coeff) for t in dec.terms])
    allowed = 2 * RESIDUAL_TOL * len(coeffs) * max(1.0, np.abs(coeffs).max())
    rng = np.random.default_rng(d)
    for _ in range(CHECK_POINTS):
        x = np.exp(2j * np.pi * rng.random(f.num_vars))
        monomials = np.prod(x ** expo, axis=1)
        powers = (points @ x) ** d
        rounding = 1e-12 * (np.abs(coeffs).sum() + np.abs(weights) @ np.abs(powers))
        if not abs(coeffs @ monomials - weights @ powers) <= allowed + rounding:
            return False
    if case.avoid is not None:
        g = case.avoid
        g_expo = np.array(exponents(3, g.degree))
        g_coeffs = np.array([complex(c) for c in g.coeffs])
        for p in points:
            value = g_coeffs @ np.prod(p ** g_expo, axis=1)
            size = max(1.0, np.abs(g_coeffs).max()) * np.abs(p).max() ** g.degree
            if not abs(value) > 1e-9 * size:
                return False
    return True


# -- inputs ----------------------------------------------------------------------


def _form_seeds(seed: int, count: int) -> range:
    return range(seed * SEED_STRIDE, seed * SEED_STRIDE + count)


def binary_cases(seed: int, max_degree: int | None = None) -> list[Case]:
    pairs = [(d, s) for d, count in BINARY_LADDER.items()
             for s in _form_seeds(seed, count)]
    pairs += [p for p in BINARY_PROBES if p not in pairs]
    return [Case(f"binary d={d} seed={s}", random_form(2, d, s), cap=d)
            for d, s in pairs if max_degree is None or d <= max_degree]


def quartic_cases(seed: int, random_count: int = QUARTIC_RANDOM,
                  with_witness: bool = True) -> list[Case]:
    avoid = [None if g is None else parse_form(g, 3) for g in QUARTIC_AVOID]
    cases = []
    for i, s in enumerate(_form_seeds(seed, random_count)):
        k = i % len(avoid)
        cases.append(Case(f"quartic seed={s} off {QUARTIC_AVOID[k]}",
                          random_form(3, 4, s, QUARTIC_HEIGHT), cap=8, avoid=avoid[k]))
    for name, build, g in QUARTIC_ROUTES:
        if name == "witness" and not with_witness:
            continue
        cases.append(Case(f"quartic {name} off {g}", build(), cap=8,
                          avoid=parse_form(g, 3)))
    return cases


def ternary_cases(seed: int, degrees: dict[int, int] = TERNARY_DEGREES) -> list[Case]:
    return [Case(f"ternary d={d} seed={s}", random_form(3, d, s), cap=(d * d - 1) // 2)
            for d, count in degrees.items() for s in _form_seeds(seed, count)]


def replay_sources(seed: int) -> list[tuple[Callable[[Case], Certificate], list[Case]]]:
    """The cheaper cases of the other workloads, each with its op chain."""
    return [
        (binary_op, binary_cases(seed, REPLAY_BINARY_MAX_DEGREE)),
        (quartic_op, quartic_cases(seed, REPLAY_QUARTIC_RANDOM, with_witness=False)),
        (ternary_op, ternary_cases(seed, REPLAY_TERNARY)),
    ]


def replay_corpus(seed: int) -> dict[str, tuple[str, bool]]:
    """Source case label -> (certificate text, its verdict is VALID).

    This runs the decompositions, so it is the workload's set-up.  A case
    whose op raised produced no certificate and is left out.
    """
    corpus = {}
    for chain, source in replay_sources(seed):
        for case in source:
            op = attempt(chain, case)
            if op.text is not None:
                corpus[case.label] = (op.text, op.outcome == "valid")
    return corpus


def replay_cases(seed: int, corpus: dict | None = None) -> list[Case]:
    """The certificates of `corpus` (built here when not given) as cases to replay."""
    if corpus is None:
        corpus = replay_corpus(seed)
    return [Case(case.label, case.form, case.cap, case.avoid, *corpus[case.label])
            for _, source in replay_sources(seed) for case in source
            if case.label in corpus]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Case]]          # seed -> cases
    chain: Callable[[Case], Certificate]        # the op chain of one case


WORKLOADS = {
    "binary-ladder": Workload(binary_cases, binary_op),
    "quartic-avoid": Workload(quartic_cases, quartic_op),
    "ternary-odd": Workload(ternary_cases, ternary_op),
    "cert-replay": Workload(replay_cases, replay_op),
}


# An op's time is scaled by the host factor of the samples taken within
# this much CPU time of it: the host's speed drifts within a pass, and
# the window holds about ten samples.
OP_FACTOR_WINDOW_S = 0.5


@dataclass
class Pass:
    ops: list[Op]           # times scaled to the nominal host, no certificate texts
    host_factor: float      # how much slower than nominal the host ran during it
    digest: str             # sha256 of the certificate texts joined by newlines
    cpu_s: float            # the ops' CPU time, unscaled

    @property
    def seconds(self) -> float:
        """Time of the pass's ops, scaled to the nominal host."""
        return sum(op.seconds for op in self.ops)


def run_pass(workload: Workload, cases: list[Case], probe: HostProbe) -> Pass:
    """One pass over every case, sampling the host speed throughout.

    Each op's CPU time is scaled by the host factor around it.  The
    certificate texts are hashed and dropped, so that the memory a run
    holds does not grow with its number of passes.
    """
    begin = probe.clock()
    probe.sample()
    ops, spans = [], []
    with probe.running():
        for case in cases:
            start = probe.clock()
            ops.append(attempt(workload.chain, case, probe.clock))
            spans.append((start, probe.clock()))
    probe.sample()
    end = probe.clock()
    digest = hashlib.sha256("\n".join(op.text or "" for op in ops).encode()).hexdigest()
    scaled = [replace(op, text=None, seconds=op.seconds / probe.factor(
                  start - OP_FACTOR_WINDOW_S, stop + OP_FACTOR_WINDOW_S))
              for op, (start, stop) in zip(ops, spans)]
    return Pass(scaled, probe.factor(begin, end), digest, sum(op.seconds for op in ops))
