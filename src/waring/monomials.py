"""Monomial bookkeeping for dense homogeneous polynomials.

A degree-d form in n variables is stored as a dense coefficient tuple over
the monomials of degree d, ordered lexicographically with x0 heaviest.  For
n = 3, d = 2 the order is

    x0^2, x0*x1, x0*x2, x1^2, x1*x2, x2^2.

Exponent tuple <-> flat index conversion round-trips exactly; both
directions are table lookups cached per (n, d).  The `Form` kernels run on
two index tables cached per shape: `product_table` (index of a product) and
`contraction_table` (index and falling factorial of each nonzero
derivative).  Both list pairs in monomial order, so a kernel adds its
products in the order the exponent-tuple loops did: same order, same bits.

A third table, `embedding_table`, is the loop plan of the line embedding
U^(d-j) V^j, j = 0..d, which `binary.line_embedding` runs without building
a `Form`: index arrays of every product of a monomial pair, with the cell
it is added into, in the order the `Form` product loops add them.  Its
float path rests on one rule: same order, and each complex product written
out in real arithmetic as Python computes it (numpy's own complex product
may fuse the multiply and the add, and then a last bit differs).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def space_dim(num_vars: int, degree: int) -> int:
    """Dimension of the space of degree-`degree` forms in `num_vars` variables."""
    if num_vars < 1 or degree < 0:
        return 0
    return math.comb(num_vars - 1 + degree, degree)


@lru_cache(maxsize=None)
def exponents(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of total degree `degree`, lex-descending."""
    if num_vars == 1:
        return ((degree,),)
    out: list[tuple[int, ...]] = []
    for e0 in range(degree, -1, -1):
        for rest in exponents(num_vars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _index_table(num_vars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(exponents(num_vars, degree))}


def index_of(expo: tuple[int, ...]) -> int:
    """Flat index of an exponent tuple within its (n, d) monomial basis."""
    return _index_table(len(expo), sum(expo))[expo]


@lru_cache(maxsize=None)
def product_table(num_vars: int, da: int, db: int) -> tuple[tuple[int, ...], ...]:
    """table[ia][ib] is the flat index of x^a * x^b (a of degree da, b of degree db)."""
    index = _index_table(num_vars, da + db)
    return tuple(tuple(index[tuple(x + y for x, y in zip(a, b))] for b in exponents(num_vars, db))
                 for a in exponents(num_vars, da))


@lru_cache(maxsize=None)
def embedding_table(num_vars: int, degree: int) -> tuple:
    """The loop plan of the products U^(d-j) * V^j, j = 0..d, for d = degree.

    Read-only index arrays (cells, lefts, rights, step), one entry per
    product of a monomial pair: the lefts[k]-th entry of U^0, ..., U^d laid
    end to end times the rights[k]-th of V^0, ..., V^d is added into cell
    cells[k] = j * N + ib of the d + 1 product columns laid end to end (N
    monomials of degree d, ib the index of the product monomial).  Column j
    follows column j - 1, and within it the products come in the order the
    product loops add them, left factor outer, so every cell receives its
    pairs in that order.  `step` is column 1 as the power step
    W^d = W^(d-1) * W: (cells within W^d, lefts into W^0, ..., W^(d-1) laid
    end to end, rights into W itself).
    """
    starts = [0]
    for m in range(degree + 1):
        starts.append(starts[-1] + space_dim(num_vars, m))
    size = space_dim(num_vars, degree)
    cells, lefts, rights = np.array(
        [(j * size + ib, starts[degree - j] + ia, starts[j] + ig)
         for j in range(degree + 1)
         for ia, row in enumerate(product_table(num_vars, degree - j, j))
         for ig, ib in enumerate(row)], dtype=np.intp).reshape(-1, 3).T
    column1 = slice(size, size + space_dim(num_vars, degree - 1) * num_vars)
    arrays = (cells, lefts, rights, cells[column1] - size, lefts[column1], rights[column1] - 1)
    for a in arrays:
        a.flags.writeable = False
    return (*arrays[:3], arrays[3:])


@lru_cache(maxsize=None)
def contraction_table(num_vars: int, dt: int, df: int):
    """table[ia] lists (ib, index of beta - alpha, falling_product(beta, alpha)) in
    order of ib, for the ib-th beta of degree df with a nonzero falling factorial;
    alpha is the ia-th exponent of degree dt."""
    index = _index_table(num_vars, df - dt)
    table = []
    for alpha in exponents(num_vars, dt):
        row = []
        for ib, beta in enumerate(exponents(num_vars, df)):
            fall = falling_product(beta, alpha)
            if fall:
                row.append((ib, index[tuple(b - a for b, a in zip(beta, alpha))], fall))
        table.append(tuple(row))
    return tuple(table)


def multinomial(expo: tuple[int, ...]) -> int:
    """d! / prod(e_i!) for d = sum(expo)."""
    out = math.factorial(sum(expo))
    for e in expo:
        out //= math.factorial(e)
    return out


@lru_cache(maxsize=None)
def multinomials(num_vars: int, degree: int) -> tuple[int, ...]:
    """multinomial(expo) for every exponent tuple of degree `degree`, in monomial order."""
    return tuple(multinomial(e) for e in exponents(num_vars, degree))


@lru_cache(maxsize=None)
def factorial_weights(num_vars: int, degree: int) -> tuple[int, ...]:
    """beta! = prod_i beta_i! for every exponent tuple beta of degree `degree`, in monomial order."""
    return tuple(math.prod(map(math.factorial, e)) for e in exponents(num_vars, degree))


def falling_product(beta: tuple[int, ...], alpha: tuple[int, ...]) -> int:
    """prod_i beta_i * (beta_i - 1) * ... * (beta_i - alpha_i + 1).

    This is the integer produced when the monomial x^beta is differentiated
    alpha_i times in each variable; zero when any alpha_i exceeds beta_i.
    """
    out = 1
    for b, a in zip(beta, alpha):
        if a > b:
            return 0
        for j in range(a):
            out *= b - j
    return out


def monomial_string(expo: tuple[int, ...]) -> str:
    """Render an exponent tuple in the input grammar, e.g. (2,1,0) -> 'x0^2*x1'."""
    parts = []
    for i, e in enumerate(expo):
        if e == 0:
            continue
        parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return "*".join(parts)
