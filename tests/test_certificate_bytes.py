"""Certificate bytes of a small fixed corpus, pinned by one sha256.

Refactors and speed-ups must leave every certificate byte as it is.  The
corpus is small enough to run in well under a second: binary forms of
degree 8, 9 and 12, four random quartics (one per avoided set, including
none) and two ternary quintics.  Together they go through the binary
root route, the quartic pencils and line splits, and the odd-degree line
split, on both scalar backends.

A change that alters certificate bytes on purpose (a fix that moves a
float result, say) updates PINNED_SHA256 here and records the old and the
new hash in CHANGES.md.
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

PINNED_SHA256 = "40bcb211317e8529d5770f5bffabd9ca22f304d6c416e56f9e880d98245d6246"

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
