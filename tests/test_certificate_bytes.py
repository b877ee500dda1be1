"""Certificate bytes of a small fixed corpus, pinned by one sha256.

Refactors and speed-ups must leave every certificate byte as it is.  The
corpus is small enough to run in well under a second: binary forms of
degree 8, 9 and 12, four random quartics (one per avoided set, including
none) and two ternary quintics.  Together they go through the binary
root route, the quartic pencils and line splits, and the odd-degree line
split, on both scalar backends.

A second pin covers a ternary septic and a ternary nonic, whose line
splits run the large float solve (55 x 80 at degree 9) that the quintics
never reach.

A third pin covers the respread of avoided pure powers: d + 1 integer
points off the power point, on both backends and on the quartic power
route's line.

A fourth pin covers the five fixed route cases of the quartic-avoid
benchmark: the conic pullback, the power re-spread, the line-open route,
the two-line split and the witness quartic, each off its own set.  They
substitute into the avoided generators along quadratic images (conic
parametrizations) and linear ones (line restrictions).

A fifth pin covers the see-saw tuple search past its all-zero tuple:
five degree-5 monomials through the odd line split and two binary
quartics through the 4 + 4 split off x2, each certified at tuple 1.

A change that alters certificate bytes on purpose (a fix that moves a
float result, say) updates the pins here and records the old and the
new hashes in CHANGES.md.
"""

import hashlib

from waring import (
    AvoidanceSet,
    decompose_binary,
    decompose_binary_avoiding,
    decompose_ternary_odd,
    parse_form,
    power_of_linear,
    quartic_decompose_open,
    random_form,
    rank_binary,
    to_json,
    verify_decomposition,
    witness_quartic,
)
from waring.certify import (BOUND_BINARY_OPEN, BOUND_BINARY_RANK, BOUND_ODD_SPLIT,
                            BOUND_QUARTIC_EIGHT)

PINNED_SHA256 = "d2e79804e3a8e0f661f375f836a59fd243cc9e98cfb6f21c8714cf555c59a1ae"

ODD_SPLIT_PINNED_SHA256 = "e075894e1c7b729e68fcd7207f70327e1cbf131a412de19aa22fb3b66c291fdc"

RESPREAD_PINNED_SHA256 = "e7f78c4e5d5a262331d92261473f670aac13d4564dce9e25503e35c314a6aea1"

QUARTIC_ROUTES_PINNED_SHA256 = "88d6f3794c597b7b35f6bff6ff28dbbd00ac009d7749a36a5e5715470d1f2cb9"

TUPLE_DRAW_PINNED_SHA256 = "f74ae4cef1494852115debab58eacc1760c2296a31258184d4361ae95fdca709"

QUARTIC_AVOID = (None, "x2", "x0*x2 - x1^2", "x0^3 + x1^3 + x2^3")


def corpus_certificates():
    for d in (8, 9, 12):
        f = random_form(2, d, seed=0)
        yield verify_decomposition(f, decompose_binary(f),
                                   bound=(rank_binary(f), BOUND_BINARY_RANK))
    for seed, g in enumerate(QUARTIC_AVOID):
        f = random_form(3, 4, seed=seed, height=3)
        avoid = None if g is None else AvoidanceSet(3, (parse_form(g, 3),))
        yield verify_decomposition(f, quartic_decompose_open(f, avoid), avoid=avoid,
                                   bound=(8, BOUND_QUARTIC_EIGHT))
    for seed in (0, 1):
        f = random_form(3, 5, seed=seed)
        yield verify_decomposition(f, decompose_ternary_odd(f),
                                   bound=(12, BOUND_ODD_SPLIT))


def test_corpus_certificate_bytes_are_pinned():
    certificates = list(corpus_certificates())
    assert len(certificates) == 9
    assert all(c.valid for c in certificates)
    texts = "\n".join(to_json(c) for c in certificates)
    assert hashlib.sha256(texts.encode()).hexdigest() == PINNED_SHA256


def odd_split_certificates():
    for d in (7, 9):
        f = random_form(3, d, seed=0)
        yield verify_decomposition(f, decompose_ternary_odd(f),
                                   bound=((d * d - 1) // 2, BOUND_ODD_SPLIT))


def test_septic_and_nonic_certificate_bytes_are_pinned():
    certificates = list(odd_split_certificates())
    assert all(c.valid for c in certificates)
    texts = "\n".join(to_json(c) for c in certificates)
    assert hashlib.sha256(texts.encode()).hexdigest() == ODD_SPLIT_PINNED_SHA256


def respread_certificates():
    f = parse_form("3*x0^5", 2)
    avoid = AvoidanceSet.from_points([(1, 1), (2, 1)])
    for seed in (0, 1, 2):
        yield verify_decomposition(f, decompose_binary_avoiding(f, avoid, seed=seed),
                                   avoid=avoid, bound=(6, BOUND_BINARY_OPEN))
    g = power_of_linear((1, 2), 5)
    avoid = AvoidanceSet.from_points([(1, 2)])
    for h in (g, g.to_float()):
        yield verify_decomposition(h, decompose_binary_avoiding(h, avoid), avoid=avoid,
                                   bound=(6, BOUND_BINARY_OPEN))
    q = parse_form("x0^4", 3)
    avoid = AvoidanceSet(3, (parse_form("x1", 3),))
    yield verify_decomposition(q, quartic_decompose_open(q, avoid), avoid=avoid,
                               bound=(8, BOUND_QUARTIC_EIGHT))


def test_respread_certificate_bytes_are_pinned():
    certificates = list(respread_certificates())
    assert all(c.valid for c in certificates)
    texts = "\n".join(to_json(c) for c in certificates)
    assert hashlib.sha256(texts.encode()).hexdigest() == RESPREAD_PINNED_SHA256


def quartic_route_certificates():
    routes = (
        (parse_form("x0^4 + x1^4", 3) + power_of_linear((1, 1, 1), 4), "x2", "conic-pullback"),
        (parse_form("x0^4", 3), "x1", "power-respread-line"),
        (parse_form("x0^4 + x0^3*x1 + x1^4", 3), "x0 - x2", "line-open"),
        (parse_form("x0^3*x1", 3), "x2", "two-line-split"),
        (witness_quartic(), "x2", "three-line-split"),
    )
    for f, g, route in routes:
        avoid = AvoidanceSet(3, (parse_form(g, 3),))
        dec = quartic_decompose_open(f, avoid)
        assert dec.provenance["route"] == route
        yield verify_decomposition(f, dec, avoid=avoid, bound=(8, BOUND_QUARTIC_EIGHT))


def test_quartic_route_certificate_bytes_are_pinned():
    certificates = list(quartic_route_certificates())
    assert all(c.valid for c in certificates)
    texts = "\n".join(to_json(c) for c in certificates)
    assert hashlib.sha256(texts.encode()).hexdigest() == QUARTIC_ROUTES_PINNED_SHA256


def tuple_draw_certificates():
    for text in ("x0^3*x1*x2", "x0^2*x1^2*x2", "x0^2*x1*x2^2", "x0*x1^3*x2", "x0*x1^2*x2^2"):
        f = parse_form(text, 3)
        dec = decompose_ternary_odd(f)
        assert dec.provenance["tuple_attempt"] == 1
        yield verify_decomposition(f, dec, bound=(12, BOUND_ODD_SPLIT))
    avoid = AvoidanceSet(3, (parse_form("x2", 3),))
    for text in ("x0^4 + x1^4", "x0^3*x1 + x0*x1^3"):
        f = parse_form(text, 3)
        dec = quartic_decompose_open(f, avoid)
        assert (dec.provenance["route"], dec.provenance["tuple_attempt"]) == ("two-line-split", 1)
        yield verify_decomposition(f, dec, avoid=avoid, bound=(8, BOUND_QUARTIC_EIGHT))


def test_tuple_draw_certificate_bytes_are_pinned():
    certificates = list(tuple_draw_certificates())
    assert all(c.valid for c in certificates)
    texts = "\n".join(to_json(c) for c in certificates)
    assert hashlib.sha256(texts.encode()).hexdigest() == TUPLE_DRAW_PINNED_SHA256


def test_every_pinned_corpus_gives_the_same_bytes_when_built_again():
    # points keep their float views; a second build in the same process
    # must not read anything a first build left behind
    corpora = (corpus_certificates, odd_split_certificates, respread_certificates,
               quartic_route_certificates, tuple_draw_certificates)

    def texts():
        return ["\n".join(to_json(c) for c in corpus()) for corpus in corpora]

    assert texts() == texts()
