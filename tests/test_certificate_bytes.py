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

A change that alters certificate bytes on purpose (a fix that moves a
float result, say) updates the pins here and records the old and the
new hashes in CHANGES.md.
"""

import hashlib

from waring import (
    AvoidanceSet,
    decompose_binary,
    decompose_ternary_odd,
    parse_form,
    quartic_decompose_open,
    random_form,
    rank_binary,
    to_json,
    verify_decomposition,
)
from waring.certify import BOUND_BINARY_RANK, BOUND_ODD_SPLIT, BOUND_QUARTIC_EIGHT

PINNED_SHA256 = "142cec94c7416ac37e60de74fcb66726390eb10e1ff3876038aca8fea86c17e7"

ODD_SPLIT_PINNED_SHA256 = "42368086251b2acb54379e74924ce4160674781091e0f6266316b87ee28ba0d5"

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
