"""Small named algebras used throughout the test suite and the docs.

b2      two-element Boolean chain
g3      three-element Goedel chain 0 < a < 1 (indices 0, 1, 2)
luk3    three-element chain with a*a = 0
g3_delta  g3 with the modal m collapsing everything below 1 to 0
g3_id     g3 with the identity modal
"""

from __future__ import annotations

from .core import Algebra, ModalSignature


def b2() -> Algebra:
    return Algebra(
        2,
        join=((0, 1), (1, 1)),
        prod=((0, 0), (0, 1)),
        imp=((1, 1), (0, 1)),
        zero=0, one=1)


def _chain_join(n):
    return tuple(tuple(max(a, b) for b in range(n)) for a in range(n))


def g3() -> Algebra:
    n = 3
    prod = tuple(tuple(min(a, b) for b in range(n)) for a in range(n))
    imp = tuple(tuple(2 if a <= b else b for b in range(n)) for a in range(n))
    return Algebra(n, _chain_join(n), prod, imp, 0, 2)


def luk3() -> Algebra:
    n = 3
    prod = tuple(tuple(max(0, a + b - 2) for b in range(n)) for a in range(n))
    imp = tuple(tuple(min(2, 2 - a + b) for b in range(n)) for a in range(n))
    return Algebra(n, _chain_join(n), prod, imp, 0, 2)


def g3_delta() -> Algebra:
    return g3().with_modals(ModalSignature(("m",)), ((0, 0, 2),))


def g3_id() -> Algebra:
    return g3().with_modals(ModalSignature(("m",)), ((0, 1, 2),))


def direct_product(A: Algebra, B: Algebra) -> Algebra:
    """Componentwise product; both factors must share the signature.
    Element (i, j) gets index i * B.size + j."""
    if A.sig != B.sig:
        raise ValueError("signatures differ")
    na, nb = A.size, B.size
    n = na * nb

    def enc(i, j):
        return i * nb + j

    def tab(ta, tb):
        rows = []
        for i in range(na):
            for j in range(nb):
                rows.append(tuple(enc(ta[i][k], tb[j][l])
                                  for k in range(na) for l in range(nb)))
        return tuple(rows)

    modals = tuple(
        tuple(enc(ta[i], tb[j]) for i in range(na) for j in range(nb))
        for ta, tb in zip(A.modal_tables, B.modal_tables))
    return Algebra(
        n,
        join=tab(A.join, B.join),
        prod=tab(A.prod, B.prod),
        imp=tab(A.imp, B.imp),
        zero=enc(A.zero, B.zero),
        one=enc(A.one, B.one),
        sig=A.sig,
        modal_tables=modals)


def b2_pair_with_identity() -> Algebra:
    """B2 x B2 with one identity modal on each side."""
    mb2 = b2().with_modals(ModalSignature(("m",)), ((0, 1),))
    return direct_product(mb2, mb2)


def b2_pair() -> Algebra:
    """B2 x B2 with no modals."""
    return direct_product(b2(), b2())
