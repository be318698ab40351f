"""Modal expansions: unary-operator validation, block words, the product
of an element with all of its modal images, and bounded block enumeration.

A block is a word over the modal signature, stored as a tuple of name
indices.  The word ``m N`` denotes "apply N first, then m", so the leftmost
letter is applied last.  The empty word is the identity.
"""

from __future__ import annotations

import itertools

from .core import EMPTY_SIGNATURE, Algebra, AxiomReport, ModalSignature

Block = tuple[int, ...]
EPS: Block = ()


def validate_modal(A: Algebra) -> AxiomReport:
    """Check m(1)=1 and m(x->y) <= m(x)->m(y) for every modal table."""
    n, imp, one, leq = A.size, A.imp, A.one, A.leq
    failures = []
    for name, t in zip(A.sig.names, A.modal_tables):
        if t[one] != one:
            failures.append((f"{name}: m(1)=1", ()))
        witness = None
        for x in range(n):
            for y in range(n):
                if not leq(t[imp[x][y]], imp[t[x]][t[y]]):
                    witness = (x, y)
                    break
            if witness:
                break
        if witness:
            failures.append((f"{name}: m(x->y) <= m(x)->m(y)", witness))
    return AxiomReport(passed=not failures, failures=tuple(failures))


def check_product_form(A: Algebra, name: str) -> bool:
    """Whether m(x)*m(y) <= m(x*y) holds for all x, y.

    For tables that already pass validate_modal this is equivalent to the
    implication inequality; for arbitrary tables it is strictly weaker.
    """
    t = A.modal(name)
    return all(
        A.leq(A.prod[t[x]][t[y]], t[A.prod[x][y]])
        for x in range(A.size) for y in range(A.size))


def apply_block(A: Algebra, block: Block, a: int) -> int:
    """Interpret a block word at a: rightmost letter applied first."""
    for i in reversed(block):
        a = A.modal_tables[i][a]
    return a


def enumerate_blocks(sig: ModalSignature, max_len: int):
    """All words of length <= max_len in length-then-lexicographic order."""
    k = len(sig)
    for length in range(max_len + 1):
        if length > 0 and k == 0:
            return
        yield from itertools.product(range(k), repeat=length)


def lambda_op(A: Algebra, a: int) -> int:
    """a multiplied by all of its modal images; the identity when the
    signature is empty."""
    out = a
    for t in A.modal_tables:
        out = A.prod[out][t[a]]
    return out


def lambda_iter(A: Algebra, l: int, a: int) -> int:
    for _ in range(l):
        a = lambda_op(A, a)
    return a


def reachable_values(A: Algebra, a: int, max_len: int | None = None
                     ) -> dict[int, Block]:
    """Map each value M(a) attainable by some block M to a shortest such M.

    Breadth-first over the modal tables, so each recorded block is a
    shortest one; among blocks of that length it is the first found, which
    need not be the lexicographically first.  The set is closed
    (all blocks covered) when max_len is None or large enough; a too-small
    bound just truncates the search.
    """
    found = {a: EPS}
    frontier = [a]
    depth = 0
    while frontier and (max_len is None or depth < max_len):
        depth += 1
        nxt = []
        for v in frontier:
            for i, t in enumerate(A.modal_tables):
                w = t[v]
                if w not in found:
                    # new letter is applied last, hence goes on the left
                    found[w] = (i,) + found[v]
                    nxt.append(w)
        frontier = nxt
    return found


def parse_block(text: str, sig: ModalSignature) -> Block:
    """Block literal: dot-separated names, or ``eps`` for the empty word."""
    text = text.strip()
    if text == "eps":
        return EPS
    if not text:
        raise ValueError("empty block literal (use 'eps')")
    return tuple(sig.index(part.strip()) for part in text.split("."))


def format_block(block: Block, sig: ModalSignature) -> str:
    if not block:
        return "eps"
    return ".".join(sig.names[i] for i in block)
